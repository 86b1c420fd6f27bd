    return t + s;
}
    double s;
    s = 0.0;
    t = ((2.0 * 7.6) * (monitor1(t) + 8.0));
    return t + s;
}
